"""Cluster substrate: nodes, network model, metrics, ElasticCluster."""

import numpy as np
import pytest

from repro.arrays import Box, ChunkData, ChunkRef
from repro.cluster import (
    CostParameters,
    ElasticCluster,
    GB,
    Node,
    insert_time,
    nic_bytes,
    rebalance_time,
    relative_std,
)
from repro.cluster.metrics import CycleMetrics, RunMetrics
from repro.core import LeadingStaircase, make_partitioner
from repro.core.base import RebalancePlan
from repro.errors import ClusterError
from tests.conftest import make_cluster


def make_chunks(schema, n, rng_seed=5, size_each=2 * GB / 10):
    rng = np.random.default_rng(rng_seed)
    chunks = []
    for i in range(n):
        x = int(rng.integers(1, 5))
        y = int(rng.integers(1, 5))
        chunks.append(
            ChunkData(
                schema,
                ((x - 1) // 2, (y - 1) // 2),
                np.array([[x, y]]),
                {"i": np.array([i], dtype=np.int32),
                 "j": np.array([float(i)])},
                size_bytes=size_each,
            )
        )
    return chunks


class TestNode:
    def test_capacity_accounting(self):
        node = Node(0, capacity_bytes=100.0)
        assert not node.over_capacity

    def test_invalid_capacity(self):
        with pytest.raises(ClusterError):
            Node(0, capacity_bytes=0.0)


class TestCostParameters:
    def test_conversions(self):
        costs = CostParameters(
            io_seconds_per_gb=10.0, network_seconds_per_gb=25.0
        )
        assert costs.io_time(GB) == pytest.approx(10.0)
        assert costs.network_time(2 * GB) == pytest.approx(50.0)
        assert costs.cpu_time(GB, intensity=2.0) == pytest.approx(
            2.0 * costs.cpu_seconds_per_gb
        )

    def test_validation(self):
        nan, inf = float("nan"), float("inf")
        bad = [
            {"io_seconds_per_gb": -1.0},
            {"fabric_concurrency": 0.0},
            {"task_dispatch_seconds": -5.0},
            {"fabric_concurrency": nan},
            {"fabric_concurrency": inf},
        ]
        for field in (
            "io_seconds_per_gb",
            "network_seconds_per_gb",
            "cpu_seconds_per_gb",
            "query_overhead_seconds",
            "task_dispatch_seconds",
        ):
            bad += [{field: nan}, {field: inf}, {field: -inf}]
        for kwargs in bad:
            with pytest.raises(ClusterError):
                CostParameters(**kwargs)
        for raw in ("nan", "inf", "-inf", "-1e-9"):
            with pytest.raises(ClusterError):
                CostParameters.from_env(
                    environ={"REPRO_COST_IO_S_PER_B": raw}
                )


class TestCostFromEnv:
    def test_from_env_reads_environ_mapping(self):
        costs = CostParameters.from_env(
            environ={"REPRO_COST_IO_S_PER_B": "2.5e-9"}
        )
        assert costs.io_seconds_per_gb == pytest.approx(2.5)
        # untouched fields keep their defaults
        assert costs.network_seconds_per_gb == (
            CostParameters().network_seconds_per_gb
        )

    def test_from_env_respects_base(self):
        base = CostParameters(cpu_seconds_per_gb=99.0)
        costs = CostParameters.from_env(
            base=base,
            environ={"REPRO_COST_NETWORK_S_PER_B": "1e-9"},
        )
        assert costs.cpu_seconds_per_gb == 99.0
        assert costs.network_seconds_per_gb == pytest.approx(1.0)

    def test_from_env_ignores_blank_values(self):
        costs = CostParameters.from_env(
            environ={"REPRO_COST_SCAN_S_PER_B": "   "}
        )
        assert costs == CostParameters()

    def test_from_env_rejects_garbage(self):
        with pytest.raises(ClusterError):
            CostParameters.from_env(
                environ={"REPRO_COST_SCAN_S_PER_B": "fast"}
            )

    def test_from_env_uses_process_environ_by_default(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_COST_IO_S_PER_B", "3e-9")
        assert CostParameters.from_env().io_seconds_per_gb == (
            pytest.approx(3.0)
        )

    def test_cluster_picks_up_env_costs(self, monkeypatch):
        from repro.cluster import ElasticCluster
        from repro.core import make_partitioner
        from repro.arrays import Box

        monkeypatch.setenv("REPRO_COST_NETWORK_S_PER_B", "4e-9")
        partitioner = make_partitioner(
            "round_robin", [0, 1], grid=Box((0, 0), (4, 4)),
            node_capacity_bytes=GB,
        )
        cluster = ElasticCluster(partitioner, GB)
        assert cluster.costs.network_seconds_per_gb == (
            pytest.approx(4.0)
        )


class TestNetworkModel:
    def plan(self):
        return RebalancePlan(
            [ChunkRef("a", (0,)), ChunkRef("a", (1,))],
            sources=[0, 1], dests=[2, 2], sizes=[4 * GB, 2 * GB],
        )

    def test_nic_bytes_counts_both_endpoints(self):
        per_node = nic_bytes(self.plan())
        assert per_node[0] == pytest.approx(4 * GB)
        assert per_node[1] == pytest.approx(2 * GB)
        assert per_node[2] == pytest.approx(6 * GB)

    def test_rebalance_time_nic_bound(self):
        costs = CostParameters(fabric_concurrency=100.0)
        t = rebalance_time(self.plan(), costs)
        # bottleneck NIC: node 2 with 6 GB in; plus 6 GB write
        assert t == pytest.approx(6 * 25.0 + 6 * 10.0)

    def test_rebalance_time_fabric_bound(self):
        costs = CostParameters(fabric_concurrency=0.5)
        t = rebalance_time(self.plan(), costs)
        # fabric: 6 GB moved / 0.5 = 12 GB equivalent on the wire
        assert t == pytest.approx(12 * 25.0 + 6 * 10.0)

    def test_empty_plan_is_free(self):
        assert rebalance_time(RebalancePlan.empty(),
                              CostParameters()) == 0.0

    def test_insert_time_eq6(self):
        costs = CostParameters()
        t = insert_time({0: 1 * GB, 1: 2 * GB, 2: 1 * GB}, 0, costs)
        # local 1 GB at io, remote 3 GB over the coordinator NIC
        assert t == pytest.approx(1 * 10.0 + 3 * 25.0)


class TestMetrics:
    def test_relative_std(self):
        assert relative_std([10, 10, 10]) == 0.0
        assert relative_std([]) == 0.0
        assert relative_std([0, 0]) == 0.0
        assert relative_std([1, 3]) == pytest.approx(0.5)

    def test_cycle_node_hours(self):
        c = CycleMetrics(
            cycle=1, nodes=4, demand_bytes=0,
            insert_seconds=1800, reorg_seconds=900, query_seconds=900,
        )
        assert c.total_seconds == 3600
        assert c.node_hours == pytest.approx(4.0)

    def test_run_metrics_aggregation(self):
        run = RunMetrics()
        for i in range(3):
            run.add(CycleMetrics(
                cycle=i + 1, nodes=2, demand_bytes=(i + 1) * GB,
                insert_seconds=60, reorg_seconds=30, query_seconds=10,
                storage_rsd=0.1 * (i + 1),
                query_seconds_by_name={"q": 10.0},
            ))
        assert run.workload_cost_node_hours == pytest.approx(
            3 * 2 * 100 / 3600
        )
        assert run.mean_storage_rsd == pytest.approx(0.2)
        assert run.query_series("q") == [10.0, 10.0, 10.0]
        assert run.nodes_series() == [2, 2, 2]
        assert run.query_seconds_by_name() == {"q": 30.0}


class TestElasticCluster:
    def test_ingest_places_and_stores(self, tiny_schema, grid3d):
        cluster = make_cluster("round_robin", grid3d)
        chunks = make_chunks(tiny_schema, 8)
        report = cluster.ingest(chunks)
        assert report.insert.chunk_count == 8
        assert cluster.total_bytes > 0
        cluster.check_consistency()

    def test_manual_scale_out_moves_chunks(self, tiny_schema, grid3d):
        cluster = make_cluster("round_robin", grid3d)
        cluster.ingest(make_chunks(tiny_schema, 12))
        report = cluster.scale_out(2)
        assert cluster.node_count == 4
        assert report.chunks_moved > 0
        cluster.check_consistency()

    def test_provisioned_ingest_scales_before_insert(self, tiny_schema,
                                                     grid3d):
        from repro.core import make_partitioner as mk

        capacity = 1 * GB
        partitioner = mk("round_robin", [0, 1])
        cluster = ElasticCluster(
            partitioner,
            node_capacity_bytes=capacity,
            provisioner=LeadingStaircase(node_capacity=capacity,
                                         samples=1, planning_cycles=1),
        )
        big = make_chunks(tiny_schema, 30, size_each=0.12 * GB)
        report = cluster.ingest(big)
        assert report.nodes_added >= 2
        assert cluster.capacity_bytes >= cluster.total_bytes
        cluster.check_consistency()

    def test_query_view_accessors(self, tiny_schema, grid3d):
        cluster = make_cluster("consistent_hash", grid3d)
        cluster.ingest(make_chunks(tiny_schema, 6))
        pairs = cluster.session().chunks_of_array("A")
        assert pairs
        for chunk, node in pairs:
            assert cluster.locate(chunk.ref()) == node
            assert cluster.chunk_data(chunk.ref()).key == chunk.key
        placement = cluster.session().placement_of_array("A")
        assert set(placement.values()) <= set(cluster.node_ids)

    def test_storage_rsd(self, tiny_schema, grid3d):
        cluster = make_cluster("append", grid3d)
        cluster.ingest(make_chunks(tiny_schema, 10))
        assert cluster.storage_rsd() > 0.5  # append: one node has all

    def test_scale_out_validation(self, grid3d):
        cluster = make_cluster("round_robin", grid3d)
        with pytest.raises(ClusterError):
            cluster.scale_out(0)

    @pytest.mark.parametrize("count", [2.5, True, np.float64(2.0)])
    def test_scale_out_rejects_a_non_integer_count(self, grid3d, count):
        cluster = make_cluster("round_robin", grid3d)
        with pytest.raises(ClusterError, match="^count must be"):
            cluster.scale_out(count)
        assert cluster.node_count == 2

    def test_scale_out_accepts_a_numpy_integer(self, grid3d):
        cluster = make_cluster("round_robin", grid3d)
        cluster.scale_out(np.int64(1))
        assert cluster.node_count == 3

    @pytest.mark.parametrize(
        "capacity", [float("nan"), float("inf"), 0, -GB, True]
    )
    def test_node_capacity_must_be_finite_and_positive(self, capacity):
        partitioner = make_partitioner("round_robin", [0, 1])
        with pytest.raises(ClusterError, match="^node_capacity_bytes must"):
            ElasticCluster(partitioner, node_capacity_bytes=capacity)

    def test_ingest_report_timing_positive(self, tiny_schema):
        # The K-d tree's grid is the 2-d chunk grid of tiny_schema's keys.
        cluster = make_cluster("kd_tree", Box((0, 0), (2, 2)))
        report = cluster.ingest(make_chunks(tiny_schema, 8))
        assert report.insert_seconds > 0
        assert report.reorg_seconds == 0.0
