"""Remote-sensing scenario: daily satellite ingest with science queries.

Walks the paper's MODIS use case (§3.1, §3.3): two bands of visible-light
measurements arrive daily, the store grows monotonically, and scientists
"cook" the newest data into products — a vegetation index (NDVI) join, a
deforestation model (k-means over the Amazon basin), and a smoothed
image (windowed aggregate).

Run:  python examples/modis_remote_sensing.py
"""

from repro import GB, RunConfig
from repro.harness import ExperimentRunner
from repro.query import (
    ModisJoinNdvi,
    ModisKMeans,
    ModisRollingAverage,
    ModisWindowAggregate,
)
from repro.workloads import ModisWorkload


def main() -> None:
    workload = ModisWorkload(
        n_cycles=10, cells_per_band_per_cycle=1200,
        target_total_gb=450.0,
    )
    runner = ExperimentRunner(
        workload,
        RunConfig(partitioner="incremental_quadtree"), queries=(),
    )

    print("ingesting 10 days of two-band imagery...\n")
    for cycle in range(1, workload.n_cycles + 1):
        metrics = runner.run_cycle(cycle)
        print(
            f"day {cycle:2d}: store {metrics.demand_bytes / GB:5.0f} GB "
            f"on {metrics.nodes} nodes (RSD "
            f"{metrics.storage_rsd * 100:4.1f}%)"
        )

    cluster = runner.cluster
    last = workload.n_cycles
    print("\nscience pass over the newest data:")

    # One epoch-pinned session for the whole science pass: every query
    # reads the same frozen view of the ingested arrays.
    session = cluster.session()
    join = ModisJoinNdvi(workload).run(session, last)
    print(
        f"  NDVI join: mean index {join.value['mean_ndvi']:.3f} over "
        f"{join.value['cells']} pixels "
        f"({join.elapsed_seconds / 60:.2f} simulated min)"
    )

    polar = ModisRollingAverage(workload, days=3).run(session, last)
    days = polar.value["daily_polar_radiance"]
    if days:
        latest_day = max(days)
        print(
            f"  polar rolling average: day {latest_day} radiance "
            f"{days[latest_day]:.1f} "
            f"({polar.elapsed_seconds / 60:.2f} simulated min)"
        )

    kmeans = ModisKMeans(workload, k=4).run(session, last)
    print(
        f"  Amazon k-means: {kmeans.value['points']} NDVI points, "
        f"{len(kmeans.value['centroids'])} clusters, mean residual "
        f"{kmeans.value['mean_residual'] and round(kmeans.value['mean_residual'], 2)} "
        f"({kmeans.elapsed_seconds / 60:.2f} simulated min)"
    )

    window = ModisWindowAggregate(workload).run(session, last)
    print(
        f"  windowed NDVI image: {window.value['windows']} output "
        f"windows, {window.network_bytes / GB:.2f} GB of halo exchange "
        f"({window.elapsed_seconds / 60:.2f} simulated min)"
    )

    print(
        "\nthe quadtree keeps each 12-degree region's days together, so "
        "the windowed aggregate's ghost cells rarely cross the network — "
        "re-run with partitioner='round_robin' to watch the halo bytes "
        "and latency grow."
    )


if __name__ == "__main__":
    main()
