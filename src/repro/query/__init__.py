"""Query engine: real numpy operators + placement-sensitive cost model.

Queries compute genuine answers over the cluster's chunks; their latency
comes from the §5.2 cost structure applied to placement (per-node scan max,
shuffle NIC time, halo exchanges for spatial operators).
"""

from repro.query.cost import (
    CostAccumulator,
    accumulator_for,
    add_scan_work,
    charge_network,
    charge_scan,
    colocation_shuffle_bytes,
    elapsed_time,
    halo_shuffle_bytes,
    maintenance_plan,
    MaintenancePlan,
    neighbor_pairs,
    node_byte_sums,
    scan_columns,
)
from repro.query.incremental import (
    DeltaJoinState,
    GridGroupByState,
    JoinSide,
    MaintainedGridStats,
    MaintainedJoin,
    MaintenanceReport,
    delta_cells,
    equi_side,
    join_aggregate_full,
    position_side,
)
from repro.query.executor import (
    CATEGORY_SCIENCE,
    CATEGORY_SPJ,
    Query,
    run_suite,
)
from repro.query.result import QueryResult
from repro.query.science import (
    AisCollisionPrediction,
    AisDensityMap,
    AisKnn,
    ModisKMeans,
    ModisRollingAverage,
    ModisWindowAggregate,
)
from repro.query.spj import (
    AisDistinctShips,
    AisSelectionHouston,
    AisVesselJoin,
    ModisJoinNdvi,
    ModisQuantileSort,
    ModisSelection,
)
from repro.query.suites import ais_suite, modis_suite, suite_for

__all__ = [
    "AisCollisionPrediction",
    "AisDensityMap",
    "AisDistinctShips",
    "AisKnn",
    "AisSelectionHouston",
    "AisVesselJoin",
    "CATEGORY_SCIENCE",
    "CATEGORY_SPJ",
    "ModisJoinNdvi",
    "ModisKMeans",
    "ModisQuantileSort",
    "ModisRollingAverage",
    "ModisSelection",
    "ModisWindowAggregate",
    "CostAccumulator",
    "DeltaJoinState",
    "GridGroupByState",
    "JoinSide",
    "MaintainedGridStats",
    "MaintainedJoin",
    "MaintenancePlan",
    "MaintenanceReport",
    "Query",
    "QueryResult",
    "accumulator_for",
    "add_scan_work",
    "ais_suite",
    "charge_network",
    "charge_scan",
    "colocation_shuffle_bytes",
    "delta_cells",
    "elapsed_time",
    "equi_side",
    "halo_shuffle_bytes",
    "join_aggregate_full",
    "maintenance_plan",
    "modis_suite",
    "neighbor_pairs",
    "position_side",
    "node_byte_sums",
    "run_suite",
    "scan_columns",
    "suite_for",
]
