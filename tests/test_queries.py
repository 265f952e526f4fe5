"""Benchmark queries: real answers + placement-sensitive timing."""

from collections import Counter

import numpy as np
import pytest

from repro.cluster import CostParameters, GB
from repro.core.catalog import ArraySnapshot
from repro.core.traits import PAPER_ORDER
from repro.errors import QueryError
from repro.query import (
    AisCollisionPrediction,
    AisKnn,
    MaintainedJoin,
    ModisKMeans,
    ModisRollingAverage,
    ModisWindowAggregate,
    ais_suite,
    modis_suite,
    position_side,
    run_suite,
    suite_for,
)
from repro.query.cost import (
    CostAccumulator,
    colocation_shuffle_bytes,
    elapsed_time,
    halo_shuffle_bytes,
    spatial_neighbors,
)
from repro.query.executor import CATEGORY_SCIENCE, CATEGORY_SPJ
from repro.harness.runner import ExperimentRunner, RunConfig


@pytest.fixture(scope="module")
def modis_cluster(small_modis):
    runner = ExperimentRunner(
        small_modis, RunConfig(partitioner="kd_tree", run_queries=False)
    )
    runner.run()
    return runner.cluster


@pytest.fixture(scope="module")
def ais_cluster(small_ais):
    runner = ExperimentRunner(
        small_ais, RunConfig(partitioner="kd_tree", run_queries=False)
    )
    runner.run()
    return runner.cluster


class TestCostHelpers:
    def test_spatial_neighbors_excludes_time(self):
        neighbors = spatial_neighbors((5, 3, 3), spatial_dims=(1, 2))
        assert len(neighbors) == 8
        assert all(n[0] == 5 for n in neighbors)
        assert (5, 3, 3) not in neighbors

    def test_elapsed_time_is_slowest_node(self):
        costs = CostParameters(query_overhead_seconds=2.0)
        acc = CostAccumulator([0, 1])
        acc.add_mapping({0: 10.0, 1: 30.0})
        assert elapsed_time(acc, costs) == 32.0
        assert elapsed_time(CostAccumulator([]), costs) == 2.0

    def test_elapsed_time_fabric_floor(self):
        costs = CostParameters(
            query_overhead_seconds=0.0,
            network_seconds_per_gb=25.0,
            fabric_concurrency=2.0,
        )
        # 8 GB on the wire / 2 concurrent = 4 GB -> 100 s > node max
        acc = CostAccumulator([0])
        acc.add_mapping({0: 10.0})
        assert elapsed_time(acc, costs,
                            wire_bytes=8 * GB) == pytest.approx(100.0)

    def test_halo_bytes_zero_when_co_located(self, tiny_schema):
        from tests.test_cluster import make_chunks

        chunks = make_chunks(tiny_schema, 6)
        pairs = [(c, 0) for c in chunks]  # all on node 0
        assert halo_shuffle_bytes(pairs, None, (0, 1)) == {}

    def test_halo_bytes_charge_both_endpoints(self, tiny_schema):
        from tests.test_cluster import make_chunks

        chunks = make_chunks(tiny_schema, 8)
        by_key = {}
        for c in chunks:
            by_key.setdefault(c.key, c)
        pairs = [
            (c, i % 2) for i, c in enumerate(by_key.values())
        ]
        wire = halo_shuffle_bytes(pairs, None, (0, 1), halo_fraction=0.5)
        if wire:
            assert set(wire) <= {0, 1}
            assert all(v > 0 for v in wire.values())

    def test_colocation_shuffle_smaller_side_ships(self, tiny_schema):
        from tests.test_cluster import make_chunks

        a = make_chunks(tiny_schema, 1, size_each=10 * GB / 10)[0]
        b = make_chunks(tiny_schema, 1, size_each=2 * GB / 10)[0]
        wire = colocation_shuffle_bytes([(a, 0, b, 1)])
        # smaller side (b) ships: both endpoints pay its bytes
        assert wire[0] == pytest.approx(b.size_bytes)
        assert wire[1] == pytest.approx(b.size_bytes)
        assert colocation_shuffle_bytes([(a, 0, b, 0)]) == {}


class TestModisSuite:
    def test_all_six_run_and_time(self, modis_cluster, small_modis):
        results = run_suite(
            modis_suite(small_modis), modis_cluster, small_modis.n_cycles
        )
        assert len(results) == 6
        for r in results:
            assert r.elapsed_seconds > 0
            assert r.category in (CATEGORY_SPJ, CATEGORY_SCIENCE)
        by_name = {r.name: r for r in results}
        assert by_name["modis_selection"].value["cells"] > 0
        quants = by_name["modis_sort"].value["quantiles"]
        assert quants[0.25] <= quants[0.5] <= quants[0.95]

    def test_ndvi_join_answer_sane(self, modis_cluster, small_modis):
        from repro.query.spj import ModisJoinNdvi

        result = ModisJoinNdvi(small_modis).run(
            modis_cluster.session(), small_modis.n_cycles
        )
        assert result.value["cells"] > 0
        # band2 (NIR) runs hotter than band1 -> positive NDVI on average
        assert result.value["mean_ndvi"] > 0

    def test_join_touches_only_latest_day(self, modis_cluster,
                                          small_modis):
        from repro.query.spj import ModisJoinNdvi

        r_last = ModisJoinNdvi(small_modis).run(modis_cluster.session(), 2)
        # scanned bytes for one day are an order below the whole array
        assert r_last.scanned_bytes < 0.5 * modis_cluster.total_bytes

    @pytest.mark.parametrize("scheme", PAPER_ORDER)
    def test_latest_day_routes_to_the_walked_pairs(self, scheme,
                                                   small_modis):
        # The latest-day queries name their working set with
        # ``time_chunk_box`` and route it; that must select the pairs —
        # same chunks, same nodes, same order — the comprehension over
        # every (chunk, node) of the band used to, scale-outs included.
        runner = ExperimentRunner(
            small_modis, RunConfig(partitioner=scheme, run_queries=False)
        )
        runner.run()
        cluster = runner.cluster
        assert cluster.node_count > 2  # at least one scale-out happened
        session = cluster.session()
        for band in ("band1", "band2"):
            walked = session.chunks_of_array(band)
            for day in (small_modis.n_cycles - 1, 2, 0):
                routed = session.chunks_in_region(
                    band, small_modis.time_chunk_box(day, day + 1)
                )
                want = [(c, n) for c, n in walked if c.key[0] == day]
                assert want
                assert [(c.ref(), n) for c, n in routed] == [
                    (c.ref(), n) for c, n in want
                ]
                assert all(a is b for (a, _), (b, _) in zip(routed, want))

    def test_selection_reads_all_attributes(self, modis_cluster,
                                            small_modis):
        from repro.query.spj import ModisQuantileSort, ModisSelection

        ModisSelection(small_modis).run(modis_cluster.session(), 3)
        sort = ModisQuantileSort(small_modis).run(modis_cluster.session(), 3)
        # the sort reads one column of everything; the selection reads
        # every column of a 1/16 corner — vertical partitioning makes
        # the sort's per-byte footprint visible
        assert sort.scanned_bytes < modis_cluster.total_bytes * 0.25

    def test_kmeans_produces_centroids(self, modis_cluster, small_modis):
        from repro.query.science import ModisKMeans

        result = ModisKMeans(small_modis, k=3, iterations=4).run(
            modis_cluster.session(), small_modis.n_cycles
        )
        if result.value["points"] >= 3:
            assert len(result.value["centroids"]) == 3

    def test_window_aggregate_windows(self, modis_cluster, small_modis):
        from repro.query.science import ModisWindowAggregate

        result = ModisWindowAggregate(small_modis).run(
            modis_cluster.session(), small_modis.n_cycles
        )
        assert result.value["windows"] > 0


class TestAisSuite:
    def test_all_six_run(self, ais_cluster, small_ais):
        results = run_suite(
            ais_suite(small_ais), ais_cluster, small_ais.n_cycles
        )
        assert len(results) == 6
        by_name = {r.name: r for r in results}
        assert by_name["ais_sort"].value["distinct_ships"] > 0
        assert by_name["ais_selection"].value["cells"] > 0
        assert by_name["knn"].value["samples"] > 0

    def test_distinct_ships_bounded_by_fleet(self, ais_cluster,
                                             small_ais):
        from repro.query.spj import AisDistinctShips

        result = AisDistinctShips(small_ais).run(
            ais_cluster.session(), small_ais.n_cycles
        )
        assert result.value["distinct_ships"] <= small_ais.ships

    def test_vessel_join_type_counts(self, ais_cluster, small_ais):
        from repro.query.spj import AisVesselJoin

        result = AisVesselJoin(small_ais).run(
            ais_cluster.session(), small_ais.n_cycles
        )
        counts = result.value["broadcasts_by_type"]
        assert counts
        assert all(t >= 0 for t in counts)
        assert -1 not in counts  # every broadcast resolves to a vessel

    def test_vessel_join_lookup_hoisted_across_cycles(self, ais_cluster,
                                                      small_ais):
        """Regression: the sorted vessel table is built once, not per run."""
        from repro.query.spj import AisVesselJoin

        query = AisVesselJoin(small_ais)
        first = query.run(ais_cluster.session(), small_ais.n_cycles)
        cached = query._lookup_cache
        assert cached is not None
        second = query.run(ais_cluster.session(), small_ais.n_cycles)
        assert query._lookup_cache is cached  # reused, not re-sorted
        assert (
            first.value["broadcasts_by_type"]
            == second.value["broadcasts_by_type"]
        )

    def test_knn_distance_finite(self, ais_cluster, small_ais):
        from repro.query.science import AisKnn

        result = AisKnn(small_ais, samples=8).run(
            ais_cluster.session(), small_ais.n_cycles
        )
        d = result.value["mean_knn_distance"]
        assert d is None or np.isfinite(d)

    def test_collision_counts_nonnegative(self, ais_cluster, small_ais):
        from repro.query.science import AisCollisionPrediction

        result = AisCollisionPrediction(small_ais).run(
            ais_cluster.session(), small_ais.n_cycles
        )
        assert result.value["predicted_close_pairs"] >= 0


class TestPlacementSensitivity:
    def test_clustered_knn_beats_scattered(self, small_ais):
        """The Figure 7 effect at test scale: kd beats round robin."""
        def knn_total(partitioner):
            runner = ExperimentRunner(
                small_ais, RunConfig(partitioner=partitioner)
            )
            metrics = runner.run()
            return sum(metrics.query_series("knn"))

        assert knn_total("kd_tree") < knn_total("round_robin")

    def test_append_join_slower_than_balanced(self, small_modis):
        """The Figure 6 effect: Append's join on recent data lags."""
        def join_total(partitioner):
            runner = ExperimentRunner(
                small_modis, RunConfig(partitioner=partitioner)
            )
            metrics = runner.run()
            return sum(metrics.query_series("join_ndvi"))

        assert join_total("append") > join_total("consistent_hash")


class TestPolarMergeRegression:
    """The north/south per-day merge is an explicit sum/count average."""

    def test_two_cap_behavior_pinned(self, modis_cluster, small_modis):
        # The query's daily values must equal the average of the caps'
        # per-day means, computed independently here from the same
        # routed chunks — the exact behavior the pre-fix two-region
        # formula happened to produce.
        from repro.query import ModisRollingAverage
        from repro.query import operators as ops
        from tests.oracles.operators import filter_region

        cycle = small_modis.n_cycles
        result = ModisRollingAverage(small_modis, days=3).run(
            modis_cluster.session(), cycle
        )
        lo = max(1, cycle - 3 + 1)
        sums, counts = {}, {}
        for region in small_modis.polar_caps(lo, cycle):
            touched = modis_cluster.session().chunks_in_region("band1", region)
            coords, values = filter_region(
                (c for c, _ in touched), region, ["radiance"]
            )
            if coords.shape[0] == 0:
                continue
            per_day = ops.group_mean_by_grid(
                coords, values["radiance"], dims=[0], cell_sizes=[1440]
            )
            for (day,), mean in per_day.items():
                sums[day] = sums.get(day, 0.0) + mean
                counts[day] = counts.get(day, 0) + 1
        expected = {day: sums[day] / counts[day] for day in sums}
        got = result.value["daily_polar_radiance"]
        assert set(got) == set(expected)
        assert expected  # the caps really observed some days
        for day in expected:
            assert got[day] == pytest.approx(expected[day])

    def test_merge_handles_third_region_and_repeated_days(self):
        from repro.query.science import merge_regional_daily_means

        a = {(1,): 10.0, (2,): 20.0}
        b = {(1,): 30.0}
        c = {(1,): 50.0, (3,): 5.0}
        merged = merge_regional_daily_means([a, b, c])
        assert merged == {
            1: pytest.approx(30.0),  # (10 + 30 + 50) / 3
            2: pytest.approx(20.0),
            3: pytest.approx(5.0),
        }
        # The pre-fix in-place formula mis-weighted the third region.
        broken = {}
        for per_day in (a, b, c):
            for (day,), mean in per_day.items():
                broken[day] = (broken.get(day, 0.0) + mean) / (
                    2.0 if day in broken else 1.0
                )
        assert broken[1] != pytest.approx(merged[1])

    def test_merge_empty(self):
        from repro.query.science import merge_regional_daily_means

        assert merge_regional_daily_means([]) == {}


class TestExecutorHelpers:
    def test_suite_for_dispatch(self, small_modis, small_ais):
        assert len(suite_for(small_modis)) == 6
        assert len(suite_for(small_ais)) == 6


#: ``(query class, the one bad keyword argument)`` per constructor case.
HOSTILE_ARGUMENTS = [
    (AisKnn, {"samples": -1}),
    (AisKnn, {"samples": 2.5}),
    (AisKnn, {"k": 0}),
    (AisKnn, {"k": -2}),
    (ModisKMeans, {"k": 0}),
    (ModisKMeans, {"iterations": -1}),
    (ModisKMeans, {"iterations": True}),
    (ModisWindowAggregate, {"window": 0}),
    (AisCollisionPrediction, {"radius_deg": float("nan")}),
    (AisCollisionPrediction, {"radius_deg": -1}),
    (AisCollisionPrediction, {"minutes_ahead": float("inf")}),
    (ModisRollingAverage, {"days": 0}),
]


class TestHostileArguments:
    """A query constructor names the argument it cannot run with."""

    @pytest.mark.parametrize(
        "query, kwargs",
        HOSTILE_ARGUMENTS,
        ids=[
            f"{q.__name__}-{k}={v}"
            for q, kw in HOSTILE_ARGUMENTS for k, v in kw.items()
        ],
    )
    def test_rejected_in_the_constructor(
        self, small_modis, small_ais, query, kwargs
    ):
        ais = query.__name__.startswith("Ais")
        workload = small_ais if ais else small_modis
        (argument,) = kwargs
        with pytest.raises(QueryError, match=rf"^{argument} must be"):
            query(workload, **kwargs)

    def test_defaults_and_numpy_integers_accepted(
        self, small_modis, small_ais
    ):
        assert AisKnn(small_ais, samples=np.int64(8)).samples == 8
        assert ModisKMeans(small_modis, k=3, iterations=4).iterations == 4
        collision = AisCollisionPrediction(small_ais, radius_deg=1)
        assert collision.radius_deg == 1.0


class TestOneRoutePerRegion:
    """No query or maintained view routes one region twice."""

    @pytest.fixture
    def routes(self, monkeypatch):
        calls = []
        route = ArraySnapshot._positions_in_region

        def spy(snapshot, region):
            calls.append((snapshot.array, region.lo, region.hi))
            return route(snapshot, region)

        monkeypatch.setattr(ArraySnapshot, "_positions_in_region", spy)
        return calls

    def _assert_once_each(self, calls, label):
        twice = [k for k, n in Counter(calls).items() if n > 1]
        assert twice == [], label

    def test_cold_suite_pass(self, small_modis, small_ais, routes):
        for workload, suite in (
            (small_modis, modis_suite), (small_ais, ais_suite)
        ):
            runner = ExperimentRunner(
                workload,
                RunConfig(partitioner="hilbert_curve", run_queries=False),
            )
            runner.run()
            routed = 0
            for query in suite(workload):
                routes.clear()
                query.run(runner.cluster, workload.n_cycles)
                self._assert_once_each(routes, query.name)
                routed += len(routes)
            assert routed  # the spy sits on the router the queries use

    def test_maintained_view_refresh(self, routes):
        from test_incremental import _chunk, _grid_view, _make_cluster

        cluster = _make_cluster("hilbert_curve")
        batch = [
            _chunk(array, t, x, (3 * x + t) % 16, x - t)
            for array in "AB" for t in range(3) for x in range(16)
        ]
        cluster.ingest(batch)
        view = _grid_view(cluster)
        join = MaintainedJoin(
            cluster, position_side("A", "v"), position_side("B", "v"),
            ndim=3,
        )
        view.refresh()
        join.refresh()
        cluster.remove_chunks([c.ref() for c in batch[:3]])
        cluster.ingest([_chunk("A", 5, 1, 1, 7.0)])
        routes.clear()
        assert view.refresh().mode == "delta"
        assert routes  # the dirty-bucket rescan routed its region
        self._assert_once_each(routes, "grid view")
        routes.clear()
        assert join.refresh().mode == "delta"
        self._assert_once_each(routes, "join")
